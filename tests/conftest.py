import warnings

import pytest

# A failing hypothesis test makes hypothesis import this module, and with it libcst,
# whose import raises a DeprecationWarning; under `filterwarnings = ["error"]` that
# happened inside pytest's report hook, an INTERNALERROR that ended the run without
# a summary.  Importing it once here, with that warning ignored, keeps the report.
# libcst comes only with hypothesis's optional `codemods` extra; without it
# hypothesis skips that import, and so does this
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

pytest_plugins = ["pytester"]

_ACCEPTANCE: dict[str, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    _ACCEPTANCE[item.nodeid] = (doc, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        doc, outcome = _ACCEPTANCE[nodeid]
        word = "PASS" if outcome == "passed" else "FAIL"
        markup = {"green": True} if outcome == "passed" else {"red": True, "bold": True}
        terminalreporter.write(f"{word} ", **markup)
        terminalreporter.line(doc)
