"""Shared fixtures and the acceptance-summary terminal report."""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchpursuit import projection_index

# Populated by the acceptance tests via the `acceptance` fixture; printed
# as one PASS/FAIL line per criterion after the run.
_ACCEPTANCE_LINES: list[tuple[int, str, str]] = []


class _AcceptanceRecorder:
    def record(self, number: int, description: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        _ACCEPTANCE_LINES.append((number, verdict, f"{description}{suffix}"))
        assert ok, f"criterion {number}: {description}{suffix}"

    def skip(self, number: int, description: str, reason: str) -> None:
        _ACCEPTANCE_LINES.append((number, "SKIP", f"{description} ({reason})"))


@pytest.fixture
def acceptance() -> _AcceptanceRecorder:
    return _AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, verdict, text in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(f"criterion {number}: {verdict} — {text}")


def assert_no_child_left() -> None:
    """Close this process's SDF helper, if it has one, then check that no
    child process is left, running or unreaped."""
    if projection_index._helper is not None:
        projection_index._helper.close()
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process is left: waitpid gave {left}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)
