"""The test session's own set-up: a failing hypothesis test is reported like any other."""

from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def test_a_failing_hypothesis_test_is_reported(pytester):
    # the report imports libcst only where it is installed: without it there is
    # nothing to fail
    pytest.importorskip("libcst")
    # a fresh interpreter, as a real run: one already inside this session has
    # imported what the failure report imports
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makepyfile(test_sample="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed, 1 passed*"])
