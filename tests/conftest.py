"""Shared fixtures, and the acceptance gate's per-criterion lines replayed
after the run.

Default output capture swallows prints from passing tests; the gate's
pass/fail lines belong in the visible summary.
"""
import contextlib
import sys
import tracemalloc
import types

import pytest


@pytest.fixture
def traced_peak():
    """``with traced_peak() as t:`` traces the allocations made inside the
    block; on a normal exit ``t.peak`` is their largest total, in bytes."""

    @contextlib.contextmanager
    def trace():
        t = types.SimpleNamespace(peak=None)
        tracemalloc.start()
        try:
            yield t
            t.peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return trace


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
