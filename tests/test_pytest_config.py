"""The repository's pytest configuration reports failing property tests."""
import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_failing_given_test_is_named(tmp_path):
    # a failing @given test makes hypothesis import its patch writer,
    # whose deprecation warning must not turn the failure into an
    # INTERNALERROR under filterwarnings = error
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_always_fails(x):
                assert x > 10**9
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "test_always_fails" in out
    assert "INTERNALERROR" not in out
