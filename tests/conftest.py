"""Shared pytest wiring: empty ledger memos for every test, and the
acceptance report after the run."""

import sys

import pytest


@pytest.fixture(autouse=True)
def no_held_ledgers():
    """Empty the one memo of held baselines and foursecant sweeps, so that
    each test counts the work of the ledgers it builds and sees its own
    monkeypatches."""
    from extremalcurves import gonality

    gonality._held.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", [])
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
