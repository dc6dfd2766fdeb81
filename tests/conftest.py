"""Terminal reporting for the acceptance criteria.

Each acceptance test is named ``test_criterion_<n>_<slug>``; after the run
one PASS/FAIL line per criterion, with the wall time of its test call,
is printed in the terminal summary.
"""

import re

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")
_results: dict[int, tuple[str, bool, float]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if match:
        number = int(match.group(1))
        slug = match.group(2).replace("_", " ")
        _results[number] = (slug, report.passed, report.duration)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_results):
        slug, passed, seconds = _results[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({slug}): {status} ({seconds:.1f} s)")
