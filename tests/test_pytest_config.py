"""The suite's own pytest configuration, run on a throwaway test file."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_fails_and_the_run_goes_on(pytester):
    # under ``filterwarnings = ["error"]`` alone, hypothesis's report hook can
    # raise a warning while reporting the failure, and pytest then stops the
    # whole run with INTERNALERROR
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_next():
            pass
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider"
    )
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
