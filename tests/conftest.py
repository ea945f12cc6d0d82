"""Collects acceptance-gate outcomes and prints one PASS/FAIL line per
criterion at the end of the run, so the gate status survives output capture."""

import pytest
from _pytest.python_api import ApproxScalar

# approx applies only the tolerance it states: by default it also adds an
# absolute 1e-12, which passes a small expected value at any stated rel
assert hasattr(ApproxScalar, "DEFAULT_ABSOLUTE_TOLERANCE")
ApproxScalar.DEFAULT_ABSOLUTE_TOLERANCE = 0.0

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, desc): acceptance gate criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is not None and rep.when == "call":
        num, desc = mark.args
        _RESULTS[num] = (rep.passed, desc)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        passed, desc = _RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict}: criterion {num} - {desc}")
